//! Host-resident address translation.
//!
//! §3.1 of the paper: the logical→physical table is "one of the most memory
//! consuming subsystems" of an SSD and on-device RAM cannot hold it at page
//! granularity — but host memory can.  NoFTL therefore keeps the full
//! page-level table in DBMS memory, avoiding both DFTL's translation-page
//! traffic and FASTer's merge overhead.
//!
//! Both directions of the table are *dense arrays*: logical→physical indexed
//! by LPN, physical→logical indexed by flat physical page.  Every update,
//! lookup, and GC reverse resolution is a single array access — no hashing
//! anywhere on the per-page path.
//!
//! ## Reader safety (concurrent engine)
//!
//! The API splits cleanly into `&self` readers ([`HostMappingTable::get`],
//! [`HostMappingTable::reverse`], [`HostMappingTable::mapped`], ...) and
//! `&mut self` writers ([`HostMappingTable::update`],
//! [`HostMappingTable::unmap`]): no interior mutability, no hidden caches on
//! the read path.  The table is `Send + Sync`, so in the concurrent engine any
//! number of concurrent readers may share it behind an `RwLock` while device
//! mutation stays single-writer — the concurrent storage engine keeps it
//! (inside the NoFTL backend) behind the backend lock, last in its lock
//! order.

use sim_utils::flatmap::FlatMap;

/// Sentinel meaning "unmapped".
const UNMAPPED: u64 = u64::MAX;

/// Dense logical→physical page table with an equally dense reverse table,
/// held entirely in host memory.
#[derive(Debug, Clone)]
pub struct HostMappingTable {
    forward: Vec<u64>,
    /// Physical flat page → LPN, indexed directly by physical page.
    reverse: FlatMap,
}

impl HostMappingTable {
    /// Create a table for `logical_pages` pages, all unmapped.  The reverse
    /// table grows on demand; use [`Self::with_physical_pages`] when the
    /// physical page count is known up front.
    pub fn new(logical_pages: u64) -> Self {
        Self {
            forward: vec![UNMAPPED; logical_pages as usize],
            reverse: FlatMap::new(),
        }
    }

    /// Create a table with the reverse direction pre-sized for
    /// `physical_pages` flat page indices (no growth during operation).
    pub fn with_physical_pages(logical_pages: u64, physical_pages: u64) -> Self {
        Self {
            forward: vec![UNMAPPED; logical_pages as usize],
            reverse: FlatMap::with_index_capacity(physical_pages as usize),
        }
    }

    /// Number of logical pages covered.
    pub fn logical_pages(&self) -> u64 {
        self.forward.len() as u64
    }

    /// Resolve `lpn` to its physical page (flat index), if mapped.
    #[inline]
    pub fn get(&self, lpn: u64) -> Option<u64> {
        let v = *self.forward.get(lpn as usize)?;
        (v != UNMAPPED).then_some(v)
    }

    /// Which logical page lives at physical page `ppa`, if any.
    #[inline]
    pub fn reverse(&self, ppa: u64) -> Option<u64> {
        self.reverse.get(ppa)
    }

    /// Map `lpn` → `ppa`; returns the superseded physical page, if any.
    #[inline]
    pub fn update(&mut self, lpn: u64, ppa: u64) -> Option<u64> {
        let old = core::mem::replace(&mut self.forward[lpn as usize], ppa);
        if old != UNMAPPED {
            self.reverse.remove(old);
        }
        self.reverse.insert(ppa, lpn);
        (old != UNMAPPED).then_some(old)
    }

    /// Drop the mapping of `lpn`; returns its physical page, if any.
    #[inline]
    pub fn unmap(&mut self, lpn: u64) -> Option<u64> {
        let old = core::mem::replace(&mut self.forward[lpn as usize], UNMAPPED);
        if old == UNMAPPED {
            return None;
        }
        self.reverse.remove(old);
        Some(old)
    }

    /// Number of currently mapped pages.
    pub fn mapped(&self) -> usize {
        self.reverse.len()
    }

    /// Host-memory footprint of the table in bytes — the resource argument of
    /// §3.1 (a 10 GB drive at 4 KiB pages needs ~20 MB of host RAM for the
    /// forward direction, trivial for a DBMS host, impossible for many SSD
    /// controllers).  Both directions are flat `u64` arrays now, so the
    /// footprint is exact rather than a hash-table estimate.
    pub fn memory_bytes(&self) -> usize {
        self.forward.len() * 8 + self.reverse.memory_bytes()
    }
}

// Reader-safety invariant: the table has no interior mutability, so shared
// references are safe across threads (concurrent readers under an RwLock).
const _: () = {
    fn assert_send_sync<T: Send + Sync>() {}
    let _ = assert_send_sync::<HostMappingTable>;
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_unmap_roundtrip() {
        let mut t = HostMappingTable::new(8);
        assert_eq!(t.get(2), None);
        assert_eq!(t.update(2, 77), None);
        assert_eq!(t.get(2), Some(77));
        assert_eq!(t.reverse(77), Some(2));
        assert_eq!(t.update(2, 99), Some(77));
        assert_eq!(t.reverse(77), None);
        assert_eq!(t.unmap(2), Some(99));
        assert_eq!(t.unmap(2), None);
        assert_eq!(t.mapped(), 0);
    }

    #[test]
    fn memory_footprint_scales_with_pages() {
        let small = HostMappingTable::new(1_000);
        let large = HostMappingTable::new(100_000);
        assert!(large.memory_bytes() > small.memory_bytes());
        // ~8 bytes per logical page for the dense array.
        assert!(large.memory_bytes() >= 800_000);
    }

    #[test]
    fn presized_reverse_behaves_identically() {
        let mut lazy = HostMappingTable::new(64);
        let mut sized = HostMappingTable::with_physical_pages(64, 256);
        for lpn in 0..64u64 {
            assert_eq!(lazy.update(lpn, 200 + lpn), sized.update(lpn, 200 + lpn));
        }
        for ppa in 0..256u64 {
            assert_eq!(lazy.reverse(ppa), sized.reverse(ppa));
        }
        assert_eq!(lazy.mapped(), sized.mapped());
    }

    #[test]
    fn concurrent_readers_share_the_table_under_a_single_writer() {
        // The concurrent-engine reader-safety contract: N reader threads resolve
        // translations through a shared RwLock while one writer remaps pages
        // between read bursts.  Readers must only ever observe fully-applied
        // states (forward and reverse agree), never a torn update.
        use parking_lot::RwLock;
        use std::sync::Arc;

        let mut t = HostMappingTable::with_physical_pages(256, 1024);
        for lpn in 0..256u64 {
            t.update(lpn, lpn + 512);
        }
        let table = Arc::new(RwLock::new(t));
        let readers: Vec<_> = (0..4)
            .map(|r| {
                let table = Arc::clone(&table);
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        let lpn = (i * 31 + r) % 256;
                        let guard = table.read();
                        let ppa = guard.get(lpn).expect("always mapped");
                        assert_eq!(
                            guard.reverse(ppa),
                            Some(lpn),
                            "reader saw a torn forward/reverse pair"
                        );
                    }
                })
            })
            .collect();
        let writer = {
            let table = Arc::clone(&table);
            std::thread::spawn(move || {
                for i in 0..2_000u64 {
                    let lpn = (i * 17) % 256;
                    let mut guard = table.write();
                    // Relocate like GC would: bounce each page between its
                    // two (collision-free) physical homes, old reverse entry
                    // cleared, both sides updated under one write lock.
                    let cur = guard.get(lpn).expect("always mapped");
                    let fresh = if cur < 768 { lpn + 768 } else { lpn + 512 };
                    guard.update(lpn, fresh);
                }
            })
        };
        for h in readers {
            h.join().unwrap();
        }
        writer.join().unwrap();
        assert_eq!(table.read().mapped(), 256);
    }

    #[test]
    fn reverse_tracks_gc_style_relocation() {
        let mut t = HostMappingTable::new(16);
        t.update(5, 40);
        // GC moves the physical page: update must clear the stale reverse
        // entry so no physical page resolves to two LPNs.
        t.update(5, 41);
        assert_eq!(t.reverse(40), None);
        assert_eq!(t.reverse(41), Some(5));
        assert_eq!(t.mapped(), 1);
    }
}
