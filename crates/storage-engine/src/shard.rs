//! Sharded buffer pool: the concurrency layer over [`BufferPool`].
//!
//! The pool is partitioned by page id (`page_id % shards`), one
//! [`parking_lot::Mutex`]-latched [`BufferPool`] per shard.  Each shard keeps
//! its own clock hand, dirty bitmap, resident table and miss-fill read
//! window, so two clients touching pages of different shards never contend on
//! a latch, and `with_pinned_pages` pin-stability holds per shard exactly as
//! it does on the single pool.
//!
//! Latch order: shard latches are always taken in ascending shard index, at
//! most one at a time on the page-access path ([`ShardedPoolView`] locks only
//! the shard owning the accessed page).  Whole-pool sweeps (`flush_all`,
//! `drain_reads`, `stats`) iterate shards in index order.  Combined with the
//! engine-level order (catalog → txns → fsm → wal → flushers → backend →
//! shards), that makes the lock graph acyclic.
//!
//! A 1-shard pool is exactly a plain [`BufferPool`] behind one latch: the
//! modulo routing is the identity, so every access sequence — and therefore
//! every device trace — is bit- and cycle-identical to the single-threaded
//! engine.  That is what the single-client identity tests pin.

use nand_flash::FlashResult;
use parking_lot::Mutex;
use sim_utils::time::SimInstant;

use crate::backend::StorageBackend;
use crate::buffer::{BufferPool, BufferStats, PageCache, ReadaheadStats};
use crate::page::PageId;

/// A buffer pool partitioned into independently latched shards by page id.
pub struct ShardedBufferPool {
    shards: Vec<Mutex<BufferPool>>,
    page_size: usize,
}

impl ShardedBufferPool {
    /// Create a pool of `total_frames` frames of `page_size` bytes split over
    /// `shards` shards (each shard gets at least two frames).
    pub fn new(shards: usize, total_frames: usize, page_size: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = (total_frames / shards).max(2);
        Self {
            shards: (0..shards)
                .map(|_| Mutex::new(BufferPool::new(per_shard, page_size)))
                .collect(),
            page_size,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Shard index owning `page_id`.
    #[inline]
    pub fn shard_of(&self, page_id: PageId) -> usize {
        (page_id % self.shards.len() as u64) as usize
    }

    /// Run `f` with shard `i` latched.
    pub fn with_shard<R>(&self, i: usize, f: impl FnOnce(&mut BufferPool) -> R) -> R {
        f(&mut self.shards[i].lock())
    }

    /// Run `f` with the shard owning `page_id` latched.
    pub fn with_owner<R>(&self, page_id: PageId, f: impl FnOnce(&mut BufferPool) -> R) -> R {
        self.with_shard(self.shard_of(page_id), f)
    }

    /// Set every shard's asynchronous miss-fill depth.
    pub fn set_async_depth(&self, depth: usize) {
        for s in &self.shards {
            s.lock().set_async_depth(depth);
        }
    }

    /// The shards' asynchronous miss-fill depth (uniform across shards).
    pub fn async_depth(&self) -> usize {
        self.shards[0].lock().async_depth()
    }

    /// Set every shard's per-hit virtual CPU cost (see
    /// [`BufferPool::set_hit_cost_ns`]).
    pub fn set_hit_cost_ns(&self, ns: u64) {
        for s in &self.shards {
            s.lock().set_hit_cost_ns(ns);
        }
    }

    /// Aggregate pool statistics, summed over shards.  Each counter is
    /// maintained under exactly one shard latch, so the sum reconciles
    /// exactly: no hit or eviction is lost or double-counted.
    pub fn stats(&self) -> BufferStats {
        let mut total = BufferStats::default();
        for s in &self.shards {
            let st = s.lock().stats();
            total.hits += st.hits;
            total.misses += st.misses;
            total.evictions += st.evictions;
            total.dirty_evictions += st.dirty_evictions;
            total.flushed_by_writers += st.flushed_by_writers;
        }
        total
    }

    /// Aggregate readahead statistics (counters summed, window high-water is
    /// the max over shards).
    pub fn readahead_stats(&self) -> ReadaheadStats {
        let mut total = ReadaheadStats::default();
        for s in &self.shards {
            let st = s.lock().readahead_stats();
            total.prefetch_issued += st.prefetch_issued;
            total.prefetch_useful += st.prefetch_useful;
            total.prefetch_wasted += st.prefetch_wasted;
            total.window_high_water = total.window_high_water.max(st.window_high_water);
        }
        total
    }

    /// Total resident pages across shards.
    pub fn resident(&self) -> usize {
        self.shards.iter().map(|s| s.lock().resident()).sum()
    }

    /// Total dirty resident pages across shards.
    pub fn dirty_count(&self) -> usize {
        self.shards.iter().map(|s| s.lock().dirty_count()).sum()
    }

    /// Fraction of all frames that are dirty.
    pub fn dirty_fraction(&self) -> f64 {
        let frames: usize = self.shards.iter().map(|s| s.lock().capacity()).sum();
        self.dirty_count() as f64 / frames as f64
    }

    /// Whether `page_id` is resident (in its owning shard).
    pub fn contains(&self, page_id: PageId) -> bool {
        self.with_owner(page_id, |p| p.contains(page_id))
    }

    /// Whether `page_id` is resident and dirty.
    pub fn is_dirty(&self, page_id: PageId) -> bool {
        self.with_owner(page_id, |p| p.is_dirty(page_id))
    }

    /// Drop `page_id` from its shard without write-back.
    pub fn discard(&self, page_id: PageId) {
        self.with_owner(page_id, |p| p.discard(page_id));
    }

    /// Barrier over every shard's in-flight miss-fill reads: the instant by
    /// which all of them have completed (at least `now`).  Shards are drained
    /// in index order; the result is the max, so a checkpoint barrier taken
    /// here covers the slowest fill of *any* shard.
    pub fn drain_reads(&self, now: SimInstant) -> SimInstant {
        let mut t = now;
        for s in &self.shards {
            t = t.max(s.lock().drain_reads(now));
        }
        t
    }

    /// Write every dirty page of every shard back to the backend.  Shards are
    /// swept in index order on the caller's single timeline.
    pub fn flush_all(
        &self,
        backend: &mut dyn StorageBackend,
        now: SimInstant,
    ) -> FlashResult<SimInstant> {
        let mut t = now;
        for s in &self.shards {
            t = s.lock().flush_all(backend, t)?;
        }
        Ok(t)
    }

    /// A [`PageCache`] view routing each page access to its owning shard.
    pub fn view(&self) -> ShardedPoolView<'_> {
        ShardedPoolView { pool: self }
    }
}

/// A [`PageCache`] over a [`ShardedBufferPool`]: each access latches exactly
/// the shard owning the requested page id, for exactly the duration of the
/// access closure.  Holding no latch between accesses is what lets N clients'
/// heap and B+-tree operations interleave page-by-page.
pub struct ShardedPoolView<'a> {
    pool: &'a ShardedBufferPool,
}

impl PageCache for ShardedPoolView<'_> {
    fn page_size(&self) -> usize {
        self.pool.page_size()
    }

    fn async_depth(&self) -> usize {
        self.pool.async_depth()
    }

    fn contains(&self, page_id: PageId) -> bool {
        self.pool.contains(page_id)
    }

    fn note_readahead_window(&mut self, window: usize) {
        // The window mark is a pool-global high-water; keep it on shard 0.
        self.pool.with_shard(0, |p| p.note_readahead_window(window));
    }

    fn with_page<R>(
        &mut self,
        backend: &mut dyn StorageBackend,
        now: SimInstant,
        page_id: PageId,
        f: impl FnOnce(&[u8]) -> R,
    ) -> FlashResult<(R, SimInstant)> {
        self.pool
            .with_owner(page_id, |p| p.with_page(backend, now, page_id, f))
    }

    fn with_page_mut<R>(
        &mut self,
        backend: &mut dyn StorageBackend,
        now: SimInstant,
        page_id: PageId,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> FlashResult<(R, SimInstant)> {
        self.pool
            .with_owner(page_id, |p| p.with_page_mut(backend, now, page_id, f))
    }

    fn new_page<R>(
        &mut self,
        backend: &mut dyn StorageBackend,
        now: SimInstant,
        page_id: PageId,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> FlashResult<(R, SimInstant)> {
        self.pool
            .with_owner(page_id, |p| p.new_page(backend, now, page_id, f))
    }

    fn prefetch(
        &mut self,
        backend: &mut dyn StorageBackend,
        now: SimInstant,
        ids: &[PageId],
    ) -> FlashResult<SimInstant> {
        // Split the batch by owning shard, preserving the request order
        // within each shard, and issue one batched fill per shard.  Shards
        // are visited in ascending index (latch order); the returned instant
        // covers the slowest shard's batch.
        let n = self.pool.shard_count();
        if n == 1 {
            return self.pool.with_shard(0, |p| p.prefetch(backend, now, ids));
        }
        let mut by_shard: Vec<Vec<PageId>> = vec![Vec::new(); n];
        for &id in ids {
            by_shard[self.pool.shard_of(id)].push(id);
        }
        let mut t = now;
        for (i, batch) in by_shard.iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let done = self
                .pool
                .with_shard(i, |p| p.prefetch(backend, now, batch))?;
            t = t.max(done);
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    fn backend() -> MemBackend {
        MemBackend::new(512, 256)
    }

    #[test]
    fn one_shard_pool_is_the_plain_pool() {
        // Identical access sequence against a plain pool and a 1-shard
        // sharded pool must produce identical stats and residency.
        let mut plain = BufferPool::new(8, 512);
        let sharded = ShardedBufferPool::new(1, 8, 512);
        let mut b1 = backend();
        let mut b2 = backend();
        for p in 0..16u64 {
            b1.write_page(0, p, &vec![p as u8; 512]).unwrap();
            b2.write_page(0, p, &vec![p as u8; 512]).unwrap();
        }
        let seq: Vec<u64> = vec![0, 1, 2, 0, 3, 9, 10, 11, 12, 13, 0, 1, 5];
        for &p in &seq {
            let (a, ta) = plain.with_page(&mut b1, 0, p, |d| d[0]).unwrap();
            let (b, tb) = sharded
                .view()
                .with_page(&mut b2, 0, p, |d| d[0])
                .unwrap();
            assert_eq!((a, ta), (b, tb));
        }
        assert_eq!(plain.stats(), sharded.stats());
        assert_eq!(plain.resident(), sharded.resident());
    }

    #[test]
    fn pages_route_to_their_owning_shard() {
        let pool = ShardedBufferPool::new(4, 16, 512);
        let mut b = backend();
        for p in 0..8u64 {
            pool.view().new_page(&mut b, 0, p, |d| d[0] = p as u8).unwrap();
        }
        for p in 0..8u64 {
            assert_eq!(pool.shard_of(p), (p % 4) as usize);
            assert!(pool.contains(p));
            assert!(pool.is_dirty(p));
            // Resident exactly in the owning shard.
            for s in 0..4 {
                let here = pool.with_shard(s, |sp| sp.contains(p));
                assert_eq!(here, s == pool.shard_of(p));
            }
        }
        assert_eq!(pool.resident(), 8);
        assert_eq!(pool.dirty_count(), 8);
    }

    #[test]
    fn aggregate_stats_reconcile_exactly_across_shards() {
        let pool = ShardedBufferPool::new(4, 16, 512);
        let mut b = backend();
        for p in 0..32u64 {
            b.write_page(0, p, &vec![p as u8; 512]).unwrap();
        }
        let mut expected_hits = 0u64;
        let mut expected_misses = 0u64;
        for round in 0..3 {
            for p in 0..32u64 {
                let resident = pool.contains(p);
                pool.view().with_page(&mut b, 0, p, |_| ()).unwrap();
                if resident {
                    expected_hits += 1;
                } else {
                    expected_misses += 1;
                }
            }
            let _ = round;
        }
        let st = pool.stats();
        assert_eq!(st.hits, expected_hits);
        assert_eq!(st.misses, expected_misses);
        // The per-shard sums equal the aggregate (nothing lost or doubled).
        let mut sum = 0u64;
        for s in 0..pool.shard_count() {
            sum += pool.with_shard(s, |sp| sp.stats().hits + sp.stats().misses);
        }
        assert_eq!(sum, st.hits + st.misses);
        assert_eq!(sum, expected_hits + expected_misses);
    }

    #[test]
    fn prefetch_splits_batches_by_shard() {
        let pool = ShardedBufferPool::new(2, 8, 512);
        let mut b = backend();
        for p in 0..8u64 {
            b.write_page(0, p, &vec![p as u8 + 1; 512]).unwrap();
        }
        let before = b.counters().host_reads;
        pool.view().prefetch(&mut b, 0, &[0, 1, 2, 3, 4, 5]).unwrap();
        assert_eq!(b.counters().host_reads - before, 6);
        for p in 0..6u64 {
            assert!(pool.contains(p), "page {p} not resident after prefetch");
        }
        let ra = pool.readahead_stats();
        assert_eq!(ra.prefetch_issued, 6);
    }

    #[test]
    fn flush_all_sweeps_every_shard() {
        let pool = ShardedBufferPool::new(4, 16, 512);
        let mut b = backend();
        for p in 0..8u64 {
            pool.view().new_page(&mut b, 0, p, |d| d[0] = 0xC0 + p as u8).unwrap();
        }
        assert_eq!(pool.dirty_count(), 8);
        pool.flush_all(&mut b, 0).unwrap();
        assert_eq!(pool.dirty_count(), 0);
        let mut buf = vec![0u8; 512];
        for p in 0..8u64 {
            b.read_page(0, p, &mut buf).unwrap();
            assert_eq!(buf[0], 0xC0 + p as u8);
        }
    }

    #[test]
    fn per_shard_capacity_has_a_floor_of_two() {
        let pool = ShardedBufferPool::new(8, 4, 512);
        // 4 frames over 8 shards would starve shards; each gets the 2-frame
        // minimum the plain pool asserts.
        for s in 0..8 {
            assert_eq!(pool.with_shard(s, |p| p.capacity()), 2);
        }
    }
}
