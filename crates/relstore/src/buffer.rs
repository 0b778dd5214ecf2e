//! LRU buffer pool over the pager.
//!
//! All B+-tree page accesses go through the pool, so the buffer-size
//! experiments observe realistic caching effects: clustered range scans
//! hit mostly-resident pages while random point lookups thrash a small
//! pool.

use std::collections::HashMap;

use crate::pager::{Page, PageId, Pager, StoreError};

/// Buffer pool statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

impl PoolStats {
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// "No frame": the end of the recency list.
const NIL: u32 = u32::MAX;

/// One resident page and its place in the recency list.
struct Frame {
    id: PageId,
    page: Page,
    dirty: bool,
    /// Neighbour used more recently (`NIL` at the head).
    newer: u32,
    /// Neighbour used less recently (`NIL` at the tail).
    older: u32,
}

/// A write-back LRU page cache of fixed capacity.
///
/// Frames live in a slab (`frames`, never longer than `capacity`) and
/// are threaded on a doubly linked recency list by slab index; `index`
/// maps a resident page to its frame. An access is one hash probe and a
/// relink to the head; a miss at capacity takes the tail — exactly the
/// least recently used page — and faults the incoming page into the
/// buffer the victim leaves behind. The order is *exact* LRU: for any
/// access trace, victims and [`PoolStats`] are those of a scan for the
/// oldest access time (the model test keeps that scan as its reference).
pub struct BufferPool {
    pager: Pager,
    capacity: usize,
    frames: Vec<Frame>,
    index: HashMap<PageId, u32>,
    /// Most recently used frame.
    head: u32,
    /// Least recently used frame: the next victim.
    tail: u32,
    /// Slab slots whose page was evicted and whose replacement failed to
    /// load; taken before the slab grows or a victim is chosen.
    vacant: Vec<u32>,
    stats: PoolStats,
}

impl BufferPool {
    /// Wrap a pager with a pool holding at most `capacity` pages
    /// (minimum 1).
    pub fn new(pager: Pager, capacity: usize) -> Self {
        BufferPool {
            pager,
            capacity: capacity.max(1),
            frames: Vec::new(),
            index: HashMap::new(),
            head: NIL,
            tail: NIL,
            vacant: Vec::new(),
            stats: PoolStats::default(),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    pub fn reset_stats(&mut self) {
        self.stats = PoolStats::default();
    }

    pub fn pager(&self) -> &Pager {
        &self.pager
    }

    /// Allocate a fresh page and cache it.
    pub fn allocate(&mut self) -> Result<PageId, StoreError> {
        let id = self.pager.allocate()?;
        let slot = self.claim_slot()?;
        let frame = &mut self.frames[slot as usize];
        frame.page.fill(0);
        frame.dirty = true;
        self.install(slot, id);
        Ok(id)
    }

    /// Read access: returns a copy-free closure result over the page.
    pub fn with_page<R>(
        &mut self,
        id: PageId,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, StoreError> {
        let slot = self.touch(id)?;
        Ok(f(&self.frames[slot as usize].page[..]))
    }

    /// Write access: mutate the page in place; marks it dirty.
    pub fn with_page_mut<R>(
        &mut self,
        id: PageId,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R, StoreError> {
        let slot = self.touch(id)?;
        let frame = &mut self.frames[slot as usize];
        frame.dirty = true;
        Ok(f(&mut frame.page[..]))
    }

    /// Flush all dirty pages to the pager.
    pub fn flush(&mut self) -> Result<(), StoreError> {
        // Drain dirty frames in a stable order for deterministic I/O.
        let mut dirty: Vec<(PageId, u32)> = self
            .index
            .iter()
            .filter(|&(_, &slot)| self.frames[slot as usize].dirty)
            .map(|(&id, &slot)| (id, slot))
            .collect();
        dirty.sort_unstable();
        for (id, slot) in dirty {
            let frame = &mut self.frames[slot as usize];
            self.pager.write(id, &frame.page)?;
            frame.dirty = false;
        }
        Ok(())
    }

    /// The frame holding page `id`, made the most recently used: a hit
    /// relinks it, a miss faults it in.
    fn touch(&mut self, id: PageId) -> Result<u32, StoreError> {
        if let Some(&slot) = self.index.get(&id) {
            self.stats.hits += 1;
            if slot != self.head {
                self.unlink(slot);
                self.link_at_head(slot);
            }
            return Ok(slot);
        }
        self.stats.misses += 1;
        let slot = self.claim_slot()?;
        let frame = &mut self.frames[slot as usize];
        if let Err(e) = self.pager.read_into(id, &mut frame.page) {
            self.vacant.push(slot);
            return Err(e);
        }
        frame.dirty = false;
        self.install(slot, id);
        Ok(slot)
    }

    /// A frame not on the list and not in the index, for an incoming
    /// page: a vacant slot, a new slab entry while the pool is below
    /// capacity, else the least recently used frame, written back first
    /// if dirty. Its buffer is reused as it is.
    fn claim_slot(&mut self) -> Result<u32, StoreError> {
        if let Some(slot) = self.vacant.pop() {
            return Ok(slot);
        }
        if self.frames.len() < self.capacity {
            self.frames.push(Frame {
                id: 0,
                page: crate::pager::blank_page(),
                dirty: false,
                newer: NIL,
                older: NIL,
            });
            return Ok((self.frames.len() - 1) as u32);
        }
        let slot = self.tail;
        let victim = &self.frames[slot as usize];
        if victim.dirty {
            self.pager.write(victim.id, &victim.page)?;
        }
        self.index.remove(&victim.id);
        self.unlink(slot);
        self.stats.evictions += 1;
        Ok(slot)
    }

    /// Enter a claimed frame as page `id`, most recently used.
    fn install(&mut self, slot: u32, id: PageId) {
        self.frames[slot as usize].id = id;
        self.index.insert(id, slot);
        self.link_at_head(slot);
    }

    fn unlink(&mut self, slot: u32) {
        let Frame { newer, older, .. } = self.frames[slot as usize];
        match newer {
            NIL => self.head = older,
            n => self.frames[n as usize].older = older,
        }
        match older {
            NIL => self.tail = newer,
            o => self.frames[o as usize].newer = newer,
        }
    }

    fn link_at_head(&mut self, slot: u32) {
        let old_head = self.head;
        let frame = &mut self.frames[slot as usize];
        frame.newer = NIL;
        frame.older = old_head;
        match old_head {
            NIL => self.tail = slot,
            h => self.frames[h as usize].newer = slot,
        }
        self.head = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::Pager;

    const PAGE_END: usize = crate::pager::PAGE_SIZE - 1;

    fn pool(cap: usize, pages: usize) -> (BufferPool, Vec<PageId>) {
        let mut pool = BufferPool::new(Pager::in_memory(), cap);
        let ids: Vec<PageId> = (0..pages).map(|_| pool.allocate().unwrap()).collect();
        pool.flush().unwrap();
        (pool, ids)
    }

    #[test]
    fn hits_and_misses() {
        let (mut pool, ids) = pool(2, 4);
        pool.reset_stats();
        // Frames may retain recently allocated pages; force distinct ones.
        pool.with_page(ids[0], |_| ()).unwrap();
        pool.with_page(ids[0], |_| ()).unwrap();
        let s = pool.stats();
        assert_eq!(s.hits + s.misses, 2);
        assert!(s.hits >= 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let (mut pool, ids) = pool(2, 3);
        pool.with_page(ids[0], |_| ()).unwrap();
        pool.with_page(ids[1], |_| ()).unwrap();
        pool.with_page(ids[2], |_| ()).unwrap(); // evicts ids[0]
        pool.reset_stats();
        pool.with_page(ids[1], |_| ()).unwrap();
        pool.with_page(ids[2], |_| ()).unwrap();
        assert_eq!(pool.stats().misses, 0, "recent pages stay resident");
        pool.with_page(ids[0], |_| ()).unwrap();
        assert_eq!(pool.stats().misses, 1, "evicted page faults back in");
    }

    #[test]
    fn writes_survive_eviction() {
        let (mut pool, ids) = pool(1, 3);
        pool.with_page_mut(ids[0], |p| p[7] = 99).unwrap();
        // Touch other pages to force eviction of ids[0].
        pool.with_page(ids[1], |_| ()).unwrap();
        pool.with_page(ids[2], |_| ()).unwrap();
        let v = pool.with_page(ids[0], |p| p[7]).unwrap();
        assert_eq!(v, 99);
    }

    #[test]
    fn flush_writes_dirty_pages() {
        let (mut pool, ids) = pool(4, 1);
        pool.with_page_mut(ids[0], |p| p[0] = 5).unwrap();
        pool.flush().unwrap();
        // Read directly from the pager: change must be durable.
        let pager = Pager::in_memory();
        let _ = pager; // structural check happens through pool reuse below
        let v = pool.with_page(ids[0], |p| p[0]).unwrap();
        assert_eq!(v, 5);
    }

    /// The pool this one replaced, kept as the reference for exact LRU:
    /// every frame stamped with a logical clock, the victim found by a
    /// scan for the oldest stamp, a fresh page buffer per fault.
    struct ScanPool {
        pager: Pager,
        capacity: usize,
        frames: HashMap<PageId, (Page, bool, u64)>,
        clock: u64,
        stats: PoolStats,
        victims: Vec<PageId>,
    }

    impl ScanPool {
        fn new(capacity: usize) -> Self {
            ScanPool {
                pager: Pager::in_memory(),
                capacity: capacity.max(1),
                frames: HashMap::new(),
                clock: 0,
                stats: PoolStats::default(),
                victims: Vec::new(),
            }
        }

        fn allocate(&mut self) -> Result<PageId, StoreError> {
            let id = self.pager.allocate()?;
            self.make_room()?;
            self.clock += 1;
            self.frames
                .insert(id, (crate::pager::blank_page(), true, self.clock));
            Ok(id)
        }

        fn with_page<R>(
            &mut self,
            id: PageId,
            write: bool,
            f: impl FnOnce(&mut [u8]) -> R,
        ) -> Result<R, StoreError> {
            if self.frames.contains_key(&id) {
                self.stats.hits += 1;
            } else {
                self.stats.misses += 1;
                self.make_room()?;
                let mut page = crate::pager::blank_page();
                self.pager.read_into(id, &mut page)?;
                self.frames.insert(id, (page, false, 0));
            }
            self.clock += 1;
            let frame = self.frames.get_mut(&id).expect("just faulted in");
            frame.1 |= write;
            frame.2 = self.clock;
            Ok(f(&mut frame.0[..]))
        }

        fn flush(&mut self) -> Result<(), StoreError> {
            let mut ids: Vec<PageId> = self
                .frames
                .iter()
                .filter(|(_, fr)| fr.1)
                .map(|(&id, _)| id)
                .collect();
            ids.sort_unstable();
            for id in ids {
                let frame = self.frames.get_mut(&id).expect("listed above");
                self.pager.write(id, &frame.0)?;
                frame.1 = false;
            }
            Ok(())
        }

        fn make_room(&mut self) -> Result<(), StoreError> {
            while self.frames.len() >= self.capacity {
                let victim = self
                    .frames
                    .iter()
                    .min_by_key(|(_, fr)| fr.2)
                    .map(|(&id, _)| id)
                    .expect("frames nonempty when at capacity");
                let (page, dirty, _) = self.frames.remove(&victim).expect("chosen from map");
                if dirty {
                    self.pager.write(victim, &page)?;
                }
                self.stats.evictions += 1;
                self.victims.push(victim);
            }
            Ok(())
        }
    }

    impl BufferPool {
        fn resident(&self) -> Vec<PageId> {
            let mut ids: Vec<PageId> = self.index.keys().copied().collect();
            ids.sort_unstable();
            ids
        }
    }

    /// Exact LRU, enforced: random traces of allocate / read / write /
    /// flush / read-of-a-page-that-does-not-exist drive the pool and the
    /// scan reference side by side; after every step the resident set
    /// (hence every victim), the `PoolStats`, the value read and the
    /// pager's physical I/O counts agree, and after the final flush so
    /// do the bytes of every page.
    #[test]
    fn eviction_order_and_stats_match_the_scan_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        for capacity in [1usize, 2, 3, 64] {
            for seed in 0..6u64 {
                let mut rng = StdRng::seed_from_u64(seed * 131 + capacity as u64);
                let mut pool = BufferPool::new(Pager::in_memory(), capacity);
                let mut reference = ScanPool::new(capacity);
                let mut victims: Vec<PageId> = Vec::new();
                let mut pages: u32 = 0;
                // Few pages against capacity 64 would never evict.
                let steps = if capacity == 64 { 6_000 } else { 1_500 };
                for step in 0..steps {
                    let before = pool.resident();
                    let roll = rng.gen_range(0..100u32);
                    // A skewed pick: recent pages are re-read more often
                    // than old ones, so hits and misses both occur.
                    let pick = |rng: &mut StdRng| {
                        let span = if rng.gen_bool(0.6) {
                            (capacity as u32 + 2).min(pages)
                        } else {
                            pages
                        };
                        pages - 1 - rng.gen_range(0..span)
                    };
                    let what = if pages == 0 || roll < 12 {
                        pages += 1;
                        let a = pool.allocate().unwrap();
                        assert_eq!(a, reference.allocate().unwrap());
                        format!("allocate {a}")
                    } else if roll < 55 {
                        let id = pick(&mut rng);
                        let got = pool.with_page(id, |p| (p[0], p[PAGE_END])).unwrap();
                        let want = reference
                            .with_page(id, false, |p| (p[0], p[PAGE_END]))
                            .unwrap();
                        assert_eq!(got, want, "step {step}: read {id}");
                        format!("read {id}")
                    } else if roll < 90 {
                        let id = pick(&mut rng);
                        let v: u8 = rng.gen();
                        let write = |p: &mut [u8]| {
                            p[0] = v;
                            p[PAGE_END] = p[PAGE_END].wrapping_add(1);
                        };
                        pool.with_page_mut(id, write).unwrap();
                        reference.with_page(id, true, write).unwrap();
                        format!("write {id}")
                    } else if roll < 96 {
                        pool.flush().unwrap();
                        reference.flush().unwrap();
                        "flush".to_string()
                    } else {
                        // A fault that fails after its victim is gone.
                        assert!(pool.with_page(pages + 7, |_| ()).is_err());
                        assert!(reference.with_page(pages + 7, false, |_| ()).is_err());
                        "read of a missing page".to_string()
                    };
                    let at = format!("capacity {capacity} seed {seed} step {step}: {what}");
                    let after = pool.resident();
                    let mut wanted: Vec<PageId> = reference.frames.keys().copied().collect();
                    wanted.sort_unstable();
                    assert_eq!(after, wanted, "{at}: resident pages");
                    victims.extend(before.iter().filter(|id| !after.contains(id)).copied());
                    assert_eq!(pool.stats(), reference.stats, "{at}: stats");
                    assert_eq!(
                        (pool.pager.physical_reads, pool.pager.physical_writes),
                        (
                            reference.pager.physical_reads,
                            reference.pager.physical_writes
                        ),
                        "{at}: physical I/O"
                    );
                    assert!(pool.frames.len() <= capacity, "{at}: slab outgrew the pool");
                }
                assert_eq!(victims, reference.victims, "victim sequence");
                assert!(pool.stats().evictions > 0 && pool.stats().hits > 0);
                pool.flush().unwrap();
                reference.flush().unwrap();
                assert_eq!(
                    pool.pager.physical_writes, reference.pager.physical_writes,
                    "flush wrote the same pages"
                );
                let (mut a, mut b) = (crate::pager::blank_page(), crate::pager::blank_page());
                for id in 0..pages {
                    pool.pager.read_into(id, &mut a).unwrap();
                    reference.pager.read_into(id, &mut b).unwrap();
                    assert!(a == b, "page {id} differs after flush");
                }
            }
        }
    }
}
